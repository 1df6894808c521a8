"""Removal attacks: random weight pruning and main-task fine-tuning,
with before/after verification against the original keys."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .io import write_atomic
from .nn import accuracy, rng_for, sgd_epochs
from .watermark import verify_black, verify_white


@dataclass
class AttackReport:
    attack: str           # prune | finetune
    param: float          # pruning rate or fine-tune epochs
    acc_before: float
    acc_after: float
    eta_gamma: Optional[float]    # mean white-box detection, scale-mode keys
    eta_kernel: Optional[float]   # mean white-box detection, kernel-mode keys
    trigger_err: Optional[float]  # mean trigger error over keys with triggers


CSV_COLUMNS = ("attack", "param", "acc_before", "acc_after",
               "eta_gamma", "eta_kernel", "trigger_err")


def prune(params, rate, seed, roles=("kernel",)):
    """Zero a uniformly random fraction of weight entries.

    Exactly round(rate * pool) entries are zeroed, sampled without
    replacement across the selected roles.  Kernel weights only by
    default: biases and normalization parameters are not what weight
    pruning tools remove, and zeroing scales would destroy the
    normalization semantics rather than sparsify the model.
    """
    if not 0.0 <= rate <= 1.0:
        raise ShapeError("pruning rate must be in [0, 1]")
    out = params.clone()
    idx = out.layout.role_index(roles)
    picks = rng_for(seed, "prune").choice(idx.size, size=round(rate * idx.size), replace=False)
    out.vec[idx[picks]] = 0.0
    return out


def finetune(net, params, ds, epochs, lr=1e-4, momentum=0.9, batch=16,
             lr_decay=0.99, seed=0):
    """Main-task-only SGD from the attacked parameters (no watermark terms).

    The learning rate decays by 1% per epoch.  Returns the fine-tuned
    parameters; `params` is not modified.
    """
    net.set_params(params)
    sgd_epochs(net, [ds.inputs], [ds.labels], epochs, lr, momentum, batch,
               (seed, "finetune"), lr_decay)
    return net.get_params()


def evaluate_attack(net, params, keys, eval_data, trigger_keys=None):
    """Main accuracy plus per-mode mean detection rates for `params`.

    `keys` are the feature-embedded signatures (white-box eligible);
    `trigger_keys` the trigger-embedded ones (defaults to `keys`).
    """
    net.set_params(params)
    acc = accuracy(net, eval_data[0], eval_data[1])
    gamma, kernel, trig = [], [], []
    for key in keys:
        eta = verify_white(params, key).detection_rate
        (gamma if key.extractor.coords is not None else kernel).append(eta)
    for key in (keys if trigger_keys is None else trigger_keys):
        if key.triggers is not None:
            trig.append(verify_black(net, key.triggers).trigger_error)
    mean = lambda xs: float(np.mean(xs)) if xs else None
    return acc, mean(gamma), mean(kernel), mean(trig)


def run_attack_suite(net, params, keys, eval_data, train_ds, prune_rates=(),
                     finetune_epochs=(), finetune_lr=1e-4, seed=0,
                     trigger_keys=None):
    """Sweep pruning rates and fine-tuning budgets over a trained model.

    Every grid point starts from the original `params`; reports come back
    in grid order (prunes first)."""
    acc0, g0, k0, t0 = evaluate_attack(net, params, keys, eval_data, trigger_keys)
    reports = []
    for rate in prune_rates:
        attacked = prune(params, rate, seed)
        acc, g, k, t = evaluate_attack(net, attacked, keys, eval_data, trigger_keys)
        reports.append(AttackReport("prune", float(rate), acc0, acc, g, k, t))
    for epochs in finetune_epochs:
        attacked = finetune(net, params, train_ds, int(epochs), lr=finetune_lr,
                            seed=seed)
        acc, g, k, t = evaluate_attack(net, attacked, keys, eval_data, trigger_keys)
        reports.append(AttackReport("finetune", float(epochs), acc0, acc, g, k, t))
    return reports


def attack_reports_to_csv(reports, path):
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        cells = [r.attack, repr(r.param), repr(r.acc_before), repr(r.acc_after)]
        for v in (r.eta_gamma, r.eta_kernel, r.trigger_err):
            cells.append("" if v is None else repr(v))
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")
