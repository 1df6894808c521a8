"""Federated training loop: client-side embedding updates, uniform client
sampling, optional Gaussian noise on uploads, and data-size weighted
averaging.

Each round, `client_update` trains every selected client in one stacked
`sgd_epochs` call on a network holding one parameter row per client (the
FedJAX way of vectorizing local training over clients); each client keeps
its own shuffle, trigger-row draws, regularizer, learning rate and noise
stream, so the result equals one-client runs bitwise.

The aggregation path only ever sees ``(client_id, ModelParams, n_k)``
tuples, each update one parameter vector with its layout; watermark keys
and trigger sets live inside ``ClientState`` and are never passed to the
server-side functions.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset, Shard
from .errors import ConfigError, StateError
from .io import write_atomic
from .nn import TRAINABLE_ROLES, ModelParams, accuracy, rng_for, sgd_epochs
from .watermark import WatermarkKey, bce_reg, hinge_reg, keygen, verify_black, verify_white


@dataclass
class WatermarkSpec:
    """Per-client embedding assignment."""
    mode: str = "scale"          # scale | kernel
    n_bits: int = 8
    n_triggers: int = 0
    loss: str = "hinge"          # hinge | bce
    alpha: float = 0.0           # trigger loss weight
    beta: float = 0.0            # feature regularizer weight
    trigger_kind: str = "pattern"


@dataclass
class ClientState:
    client_id: int
    shard: Shard
    data: Dataset
    key: Optional[WatermarkKey] = None
    alpha: float = 0.0
    beta: float = 0.0
    loss_kind: str = "hinge"

    @property
    def n_samples(self):
        return self.data.n


@dataclass
class FedConfig:
    n_clients: int = 8
    fraction: float = 1.0
    rounds: int = 60
    local_epochs: int = 2
    batch: int = 16
    backdoor_batch: int = 2
    lr: float = 0.01
    momentum: float = 0.9
    lr_decay: float = 0.99
    dp_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError("fraction must be in (0, 1]")
        if self.n_clients < 1 or math.ceil(self.fraction * self.n_clients) < 1:
            raise ConfigError("need at least one client per round")
        for name in ("lr", "momentum", "lr_decay", "dp_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.dp_sigma < 0:
            raise ConfigError("dp_sigma must be >= 0")


@dataclass
class RoundLog:
    round_index: int
    selected: tuple
    accuracy: Optional[float]
    loss_main: dict = field(default_factory=dict)
    loss_trigger: dict = field(default_factory=dict)
    loss_feature: dict = field(default_factory=dict)
    eta: dict = field(default_factory=dict)
    trigger_error: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# client side

def _reg_for(loss_kind):
    if loss_kind == "hinge":
        return hinge_reg
    if loss_kind == "bce":
        return bce_reg
    raise ConfigError(f"unknown feature loss {loss_kind!r}")


def client_update(net, states, global_params, cfg, round_index=0):
    """Local embedding updates of a round's clients: minibatch momentum SGD
    of each client on its own

        L = L_main + alpha * L_trigger + beta * R_feature

    starting from the distributed global parameters, all clients trained
    as one stacked computation on a `net.stacked` copy of the network.
    Trigger samples extend each clean batch (batch poisoning).  Returns,
    per state, the updated local parameters and the mean loss
    decomposition.
    """
    for state in states:
        if state.beta > 0 and state.key is None:
            raise ConfigError(f"client {state.client_id}: beta > 0 but no watermark key")
        if state.alpha > 0 and (state.key is None or state.key.triggers is None):
            raise ConfigError(f"client {state.client_id}: alpha > 0 but no trigger set")
    terms = ("main", "trigger", "feature")
    if cfg.local_epochs == 0:
        return [(global_params.clone(), {k: 0.0 for k in terms}) for _ in states]

    stack = net.stacked(len(states))
    stack.set_params(global_params)
    triggers, regs = [], []
    for state in states:
        feature_reg = _reg_for(state.loss_kind)
        trig = reg = None
        if state.alpha > 0:
            t = state.key.triggers
            trig = (t.samples, t.target_labels, state.alpha, cfg.backdoor_batch,
                    rng_for(cfg.seed, "trigger-batches", round_index, state.client_id))
        if state.beta > 0:
            def reg(params, feature_reg=feature_reg, key=state.key, beta=state.beta):
                loss, grads = feature_reg(params, key)
                grads.vec *= beta
                return loss, grads
        triggers.append(trig)
        regs.append(reg)
    # the shuffle stream is shared across clients so that identical shards
    # under identical configs produce identical updates
    losses, _ = sgd_epochs(stack, [s.data.inputs for s in states], [s.data.labels for s in states],
                           cfg.local_epochs, cfg.lr * cfg.lr_decay ** round_index, cfg.momentum,
                           cfg.batch, (cfg.seed, "batches", round_index), triggers=triggers, reg=regs)
    rows = stack.params.vec.reshape(len(states), -1)
    return [(ModelParams.wrap(global_params.layout, row),
             {k: float(np.mean(v)) for k, v in zip(terms, client_losses)})
            for row, client_losses in zip(rows, losses)]


def add_dp_noise(update, sigma, seed):
    """Gaussian noise on the uploaded update's trainable entries.

    Normalization running statistics ride along untouched: they are not
    gradient information, and perturbing them breaks eval-mode forward
    passes."""
    if sigma == 0.0:
        return update
    out = update.clone()
    idx = out.layout.role_index(TRAINABLE_ROLES)
    out.vec[idx] += rng_for(seed, "dp-noise").normal(0.0, sigma, size=idx.size)
    return out


# ---------------------------------------------------------------------------
# server side

def sample_clients(n_clients, fraction, round_index, seed):
    """Uniform sample without replacement of ceil(fraction * K) clients."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError("fraction must be in (0, 1]")
    m = math.ceil(fraction * n_clients)
    rng = rng_for(seed, "sample", round_index)
    return tuple(sorted(rng.choice(n_clients, size=m, replace=False).tolist()))


def aggregate(updates):
    """Data-size weighted average over the participating set, reduced in
    ascending client id order."""
    if not updates:
        raise StateError("nothing to aggregate")
    updates = sorted(updates, key=lambda u: u[0])
    total = sum(n_k for _, _, n_k in updates)
    layout = updates[0][1].layout
    if any(params.layout != layout for _, params, _ in updates):
        raise StateError("update layouts differ")
    acc = updates[0][1].vec * (updates[0][2] / total)
    for _, params, n_k in updates[1:]:
        acc += params.vec * (n_k / total)
    return ModelParams.wrap(layout, acc)


# ---------------------------------------------------------------------------
# orchestration

def setup_clients(ds, shards, net, specs, seed, vanilla=None):
    """Build per-client state; clients listed in `specs` get keys.

    Scale-mode keys take consecutive slices of the channel pool in client
    id order, so they are disjoint while their bits fit the pool."""
    holders = {cid: spec for cid, spec in specs.items() if spec.alpha > 0 or spec.beta > 0}
    offsets, total = {}, 0
    for cid in sorted(holders):
        if holders[cid].mode == "scale":
            offsets[cid] = total
            total += holders[cid].n_bits
    clients = []
    for shard in shards:
        spec = holders.get(shard.client_id)
        key = None
        alpha = beta = 0.0
        loss_kind = "hinge"
        if spec is not None:
            key = keygen(net, shard.client_id, spec.n_bits, spec.n_triggers,
                         spec.mode, seed, dataset=ds, trigger_kind=spec.trigger_kind,
                         vanilla=vanilla, offset=offsets.get(shard.client_id))
            alpha, beta, loss_kind = spec.alpha, spec.beta, spec.loss
        clients.append(ClientState(shard.client_id, shard, ds.subset(shard.indices),
                                   key, alpha, beta, loss_kind))
    return clients


def run_federation(cfg, clients, net, eval_data=None):
    """Round loop: distribute -> sampled client updates -> optional DP noise
    -> aggregate.  Returns the final global parameters and per-round logs.

    Per-round telemetry records each key-holding client's own white/black
    verification of the fresh global model (a client-side check; the
    aggregation path never reads key material).
    """
    global_params = net.get_params()
    logs = []
    by_id = {c.client_id: c for c in clients}
    for r in range(cfg.rounds):
        selected = sample_clients(cfg.n_clients, cfg.fraction, r, cfg.seed)
        updates = []
        log = RoundLog(r, selected, None)
        states = [by_id[cid] for cid in selected]
        for state, (local, losses) in zip(states, client_update(net, states, global_params,
                                                                cfg, r)):
            cid = state.client_id
            if cfg.dp_sigma > 0:
                local = add_dp_noise(local, cfg.dp_sigma, (cfg.seed, r, cid))
            updates.append((cid, local, state.n_samples))
            log.loss_main[cid] = losses["main"]
            log.loss_trigger[cid] = losses["trigger"]
            log.loss_feature[cid] = losses["feature"]
        global_params = aggregate(updates)

        net.set_params(global_params)
        if eval_data is not None:
            log.accuracy = accuracy(net, eval_data[0], eval_data[1])
        for state in clients:
            if state.key is None:
                continue
            if state.beta > 0:
                log.eta[state.client_id] = verify_white(
                    global_params, state.key).detection_rate
            if state.alpha > 0 and state.key.triggers is not None:
                log.trigger_error[state.client_id] = verify_black(
                    net, state.key.triggers).trigger_error
        logs.append(log)
    net.set_params(global_params)
    return global_params, logs


# ---------------------------------------------------------------------------
# round log serialization

def round_log_columns(n_clients):
    cols = ["round", "selected", "accuracy"]
    for k in range(n_clients):
        cols += [f"main_{k}", f"trigger_{k}", f"feature_{k}", f"eta_{k}", f"trigerr_{k}"]
    return cols


def _cell(value):
    return "" if value is None else repr(value)


def round_logs_to_csv(logs, path, n_clients):
    """Fixed column order: round, selected (ids joined by ';'), accuracy,
    then (main, trigger, feature, eta, trigerr) per client id."""
    lines = [",".join(round_log_columns(n_clients))]
    for log in logs:
        row = [str(log.round_index), ";".join(str(c) for c in log.selected),
               _cell(log.accuracy)]
        for k in range(n_clients):
            row += [_cell(log.loss_main.get(k)), _cell(log.loss_trigger.get(k)),
                    _cell(log.loss_feature.get(k)), _cell(log.eta.get(k)),
                    _cell(log.trigger_error.get(k))]
        lines.append(",".join(row))
    write_atomic(path, "\n".join(lines) + "\n")
